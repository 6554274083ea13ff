"""Deformed Laplace-inversion contours for the semigroup kernels.

The residual (non-heat) part of the per-mode Green's function is recovered from
the resolvent kernel by a Bromwich integral

    R(t, y, z) = (1/2 pi i) int_Gamma exp(lambda t) R_lambda(y, z) dlambda.

The contour Gamma is deformed into the left half plane around the branch cut
lambda + nu |xi|^2 in (-inf, 0].  Two deformations are used, both built around
the saddle of exp(lambda t - mu s) with s = y + z and vertex parameter
a = s / (2 nu t):

* low frequency (nu |xi|^2 <= 1): two parabolic arms
  lambda = -nu|xi|^2/2 + nu (a + i b)^2 -+ i M, b in (-inf, 0] resp. [0, inf),
  bridged by a half circle of radius M around c0 = -nu|xi|^2/2 + nu a^2.
  The arc and the arms together enclose the pole, so by Cauchy's theorem
  their integral is the closed-form Robin heat kernel rho of the ``kernels``
  module.

* high frequency (nu |xi|^2 >= 1): a single parabola
  lambda = -nu|xi|^2 + nu (theta a + i b)^2, b in R, with theta in {1, 1/2}
  chosen so the line mu = theta a + i b stays away from the pole of the
  integrand at mu = sigma.  The parabola integral plus the residue where the
  parabola crossed the pole (``params["crosses_pole"]``) is rho.

Both take the pole once, as ``sigma`` (finite, > 0; kept in ``params``): its
position in mu = sqrt(lambda/nu + |xi|^2), so lambda* = nu (sigma^2 - |xi|^2)
(sigma = |xi|, lambda* = 0 for the no-slip kernel).

Everything is parameterized so that the magnitude of exp(lambda t - mu s) is
bounded along the contour (steepest-descent arms), which keeps the quadrature
well conditioned even for large s^2/(4 nu t).

Each deformation is described once, as the ``Segment`` maps of a ``Contour``.
The maps broadcast over an array of s (s axes first, the node axis last), so
one Contour holds the contours of a whole batch of s.  Contours serve only
the oracles: ``Contour.integrate`` (adaptive panels) integrates their
integrands in lambda (``residual_kernel_general(method="adaptive")`` and
``invert_resolvent_kernel``).  No production path builds a contour or reads
its geometry: the kernels split R = R1 + R2 in closed form at x = 0, where
the contours' split (arc against arms, or where ``crosses_pole`` lands)
would make the parts contour artifacts.  Only ``integrate`` needs scipy's
``quad_vec``, so it imports ``scipy.integrate`` on its first call and the
package import does not load it.  ``highfreq_params`` also takes (cell, 1)
columns of t, nu, |xi| and sigma against an s row.

Both deformations are mirror images under complex conjugation, and the
residual integrands are real in the sense f(conj lambda) = conj f(lambda)
(real t, s, nu, |xi|, sigma and the principal root mu).  The lower half of a
contour therefore contributes the conjugate of the upper half's integral I,
so the Bromwich integral is (I - conj I) / (2 pi i) = Im(I) / pi.  A
``Contour`` is its upper half (Im lambda >= 0): at low frequency the quarter
circle from the real axis and the arm b >= 0, at high frequency the parabola
b >= 0.  ``integrate`` returns that real value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .errors import IncompatibleData, PoleOnContour

__all__ = [
    "Segment",
    "Contour",
    "build_contour_lowfreq",
    "build_contour_highfreq",
    "lowfreq_params",
    "highfreq_params",
    "BETA_MAX",
]

# Arms are truncated where exp(-nu b^2 t) = exp(-beta^2) drops below ~1e-16.
BETA_MAX = 6.1

# Keep the parabola vertex strictly right of the branch cut even when the
# saddle parameter a vanishes (s = 0 puts the paper-exact contour on the cut;
# any vertex offset gives the same integral by Cauchy's theorem).
VERTEX_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a contour: lambda = gamma(p), p in [0, p1]."""

    name: str
    p1: float
    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Contour:
    """The upper half (Im lambda >= 0) of an upward-oriented contour, in segments.

    ``params`` holds the geometry (the pole ``sigma`` among it).
    """

    segments: tuple[Segment, ...]
    regime: str
    params: dict = field(compare=False)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]):
        """(1/2 pi i) * integral of f(lambda) over the segments and their mirrors.

        Requires f(conj lambda) = conj f(lambda), and returns the real
        Im(I) / pi of the upper-half integral I.  Uses adaptive Gauss-Kronrod
        panels (scipy ``quad_vec``, imported here because only the oracles
        integrate adaptively); ``f`` must be vectorized over a 1-D array of
        lambda values and may return extra leading axes (e.g. a stack of
        integrands).
        """
        from scipy.integrate import quad_vec

        def part(seg):
            def g(p):  # quad_vec passes a scalar p, f takes a node axis
                p = np.atleast_1d(p)
                return (f(seg.gamma(p)) * seg.dgamma(p))[..., 0]

            return quad_vec(g, 0.0, seg.p1, epsabs=1e-13, epsrel=1e-11)[0]

        total = reduce(operator.add, (part(seg) for seg in self.segments))
        return total.imag / np.pi


def _last(x) -> np.ndarray:
    """x with a trailing unit axis, so its s axes broadcast against the nodes."""
    return np.asarray(x)[..., None]


def _parabola(nu: float, center, shift):
    """(gamma, dgamma) of lambda = shift + nu (center + i b)^2."""
    return (lambda b: shift + nu * (center + 1j * b) ** 2,
            lambda b: 2j * nu * (center + 1j * b))


def _check_sigma(sigma) -> None:
    if not np.all((0.0 < sigma) & (sigma < math.inf)):
        raise IncompatibleData(f"the pole sigma must be finite and positive, got {sigma}")


# ---------------------------------------------------------------------------
# low frequency


def lowfreq_params(t: float, nu: float, xi_norm: float, s, sigma: float) -> dict:
    """Geometry of the low-frequency contour; vectorized over s = y + z.

    The half circle must enclose the real integrand pole
    lambda* = nu (sigma^2 - |xi|^2) (0 for the no-slip kernel).  The radius
    M = 1.25 |c0 - lambda*| + max(nu |xi|^2, 0.5/t) keeps the pole strictly
    inside, and grows with |c0| so that exp(lambda t - mu s) stays bounded on
    the half circle; a fixed multiple of max(nu a^2, ...) as the radius would
    overflow exp(M t) for large a.
    """
    _check_sigma(sigma)
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    c_arm = -0.5 * nu * xi_norm**2
    c0 = c_arm + nu * a**2
    M = 1.25 * np.abs(c0 - nu * (sigma**2 - xi_norm**2)) + max(nu * xi_norm**2, 0.5 / t)
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma, "a": a,
            "c_arm": c_arm, "c0": c0, "M": M, "b_max": b_max}


def build_contour_lowfreq(t: float, nu: float, xi_norm: float, s, sigma: float,
                          M: float | None = None) -> Contour:
    """Low-frequency contour for a scalar s or an array of s, around the pole sigma.

    ``M`` overrides the default radius (used by the contour-independence
    checks: any admissible radius gives the same integral); PoleOnContour is
    raised unless the override radius encloses the pole for every s.
    """
    params = lowfreq_params(t, nu, xi_norm, s, sigma)
    if M is not None:
        if np.any(np.abs(params["c0"] - nu * (sigma**2 - xi_norm**2)) >= M):
            raise PoleOnContour(f"override radius M does not enclose the pole mu = {sigma}")
        params = dict(params, M=M)
    a, c0, M = _last(params["a"]), _last(params["c0"]), _last(params["M"])
    c_arm, b_max = params["c_arm"], params["b_max"]

    segments = (Segment("arc", 0.5 * np.pi, lambda th: c0 + M * np.exp(1j * th),
                        lambda th: 1j * M * np.exp(1j * th)),
                Segment("arm", b_max, *_parabola(nu, a, c_arm + 1j * M)))
    return Contour(segments=segments, regime="lowfreq", params=params)


# ---------------------------------------------------------------------------
# high frequency


def highfreq_params(t, nu, xi_norm, s, sigma) -> dict:
    """Geometry of the high-frequency parabola; vectorized over s = y + z.

    The parabola must avoid the integrand pole at mu = sigma.  theta = 1/2 is
    selected when the saddle parameter a sits in the danger band
    [sigma/2, 3 sigma/2].  ``t``, ``nu``, ``xi_norm`` and ``sigma`` may be
    (cells, 1) columns against an s row, which gives every cell's geometry
    at once, each value bit for bit the one its own scalar call gives.
    """
    _check_sigma(sigma)
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    ratio = a / sigma
    theta = np.where((ratio >= 0.5) & (ratio <= 1.5), 0.5, 1.0)
    floor = VERTEX_FLOOR_FRACTION * xi_norm
    # keep the floored vertex away from the pole as well as off the cut
    floor = np.where(np.abs(floor - sigma) < 0.5 * sigma, 0.25 * sigma, floor)
    a_eff = np.maximum(theta * a, floor)
    # The Bromwich line sweeps across the pole mu = sigma exactly when the
    # vertical mu-line Re mu = a_eff ends up left of it; only then does the
    # parabola integral miss the pole contribution and a residue must be
    # added (t -> 0 kills the residue at large a, t -> infinity keeps it).
    crosses = a_eff < sigma
    if np.any(np.abs(a_eff - sigma) < 1e-9 * np.maximum(sigma, 1.0)):
        raise PoleOnContour("parabola passes through the integrand pole")
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma, "a": a,
            "theta": theta, "a_eff": a_eff, "crosses_pole": crosses, "b_max": b_max}


def build_contour_highfreq(t: float, nu: float, xi_norm: float, s, sigma: float) -> Contour:
    """High-frequency parabola for a scalar s or an array of s, around the pole sigma.

    On it the principal root is mu = a_eff + i b (in exact arithmetic).
    ``params["crosses_pole"]`` says for which s the parabola crossed the pole,
    so that the residue must be added.
    """
    params = highfreq_params(t, nu, xi_norm, s, sigma)
    a_eff, b_max = _last(params["a_eff"]), params["b_max"]
    segments = (Segment("parabola", b_max, *_parabola(nu, a_eff, -nu * xi_norm**2)),)
    return Contour(segments=segments, regime="highfreq", params=params)
